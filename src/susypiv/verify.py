"""Finite-difference residual harness: the independent grid oracle behind
every closed-form construction.

Step sizes are set by the double-precision noise floor, not by truncation
alone: a second difference amplifies per-evaluation rounding by 1/h^2, so
order-2 stencils default to h = 1e-3 while order-1 stencils keep h = 1e-4;
the triple-nested annihilation stencil pays 1/h^3 and uses h = 5e-3.  Near a
zero of u the truncation term grows like (h/d)^4 with d the distance to the
zero, so beta-dependent stencils cap h at 0.02/(1+|beta|) pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oscillator, painleve, seed
from .errors import AllPointsExcluded, EvaluationFailed, SusypivError
from .grid import Grid
from .seed import TransformParams

EXCLUDE_REL = 1e-6
_DELTA_ABS = 1e-10

_H_ORDER1 = 1e-4
_H_ORDER2 = 1e-3
_H_NESTED_INNER = 5e-4
_H_NESTED_OUTER = 5e-3
_POLE_CAP = 0.02
_NESTED_CAP = 2e-3

KINDS = (
    "schrodinger",
    "riccati",
    "piv_family_1",
    "piv_family_2",
    "piv_family_3",
    "eigen",
    "new_state",
    "annihilation",
)

THRESHOLDS = {
    "schrodinger": 1e-7,
    "riccati": 1e-7,
    "piv_family_1": 1e-8,
    "piv_family_2": 1e-8,
    "piv_family_3": 1e-8,
    "eigen": 1e-6,
    "new_state": 1e-6,
    "annihilation": 1e-5,
}

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


def threshold_for(kind_label: str) -> float:
    return THRESHOLDS[kind_label.split("(")[0]]


def fd_derivative(f, x, order: int = 1, h: float | None = None) -> complex:
    """Centered difference with one Richardson step (h and h/2); O(h^4)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if h is None:
        h = _H_ORDER1 if order == 1 else _H_ORDER2
    if h <= 0.0:
        raise ValueError("h must be positive")

    def call(t):
        try:
            v = complex(f(t))
        except SusypivError as exc:
            raise EvaluationFailed(f"stencil point {t} failed: {exc}") from exc
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise EvaluationFailed(f"stencil point {t} is non-finite")
        return v

    if order == 1:
        coarse = (call(x + h) - call(x - h)) / (2.0 * h)
        fine = (call(x + 0.5 * h) - call(x - 0.5 * h)) / h
    else:
        centre = call(x)
        coarse = (call(x + h) - 2.0 * centre + call(x - h)) / (h * h)
        fine = (call(x + 0.5 * h) - 2.0 * centre + call(x - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * fine - coarse) / 3.0


def _fd1(fn, xs, h):
    coarse = (fn(xs + h) - fn(xs - h)) / (2.0 * h)
    fine = (fn(xs + 0.5 * h) - fn(xs - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def _fd2(fn, xs, h):
    centre = fn(xs)
    coarse = (fn(xs + h) - 2.0 * centre + fn(xs - h)) / (h * h)
    fine = (fn(xs + 0.5 * h) - 2.0 * centre + fn(xs - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * fine - coarse) / 3.0


def _capped(h, beta):
    return np.minimum(h, _POLE_CAP / (1.0 + np.abs(beta)))


def _schrodinger_rel(params, xs, h):
    u, up, _, _ = seed.seed_eval_grid(params, xs)
    upp = _fd2(lambda t: seed.seed_u(params, t), xs, h)
    eps = params.epsilon
    resid = -upp + xs * xs * u - eps * u
    scale = 1.0 + np.abs(upp) + np.abs(xs * xs * u) + np.abs(eps * u)
    return np.abs(resid) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}


def _riccati_rel(params, xs, h):
    u, up, beta, _ = seed.seed_eval_grid(params, xs)
    beta_fn = lambda t: seed.seed_eval_grid(params, t)[2]
    beta_p = _fd1(beta_fn, xs, _capped(h, beta))
    eps = params.epsilon
    resid = beta_p + beta * beta - xs * xs + eps
    scale = 1.0 + np.abs(beta_p) + np.abs(beta) ** 2 + xs * xs + abs(eps)
    return np.abs(resid) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}


def _piv_rel(params, family, xs):
    g, gp, gpp, denoms = painleve.family_grid_eval(params, family, xs)
    a, b = painleve.piv_parameters(params, family)
    with np.errstate(all="ignore"):
        terms = painleve.piv_residual_terms(g, gp, gpp, xs, a, b)
        resid = sum(terms[1:], start=terms[0])
        scale = 1.0
        for t in terms:
            scale = scale + np.abs(t)
        return np.abs(resid) / scale, denoms


def _eigen_rel(params, n, xs, h):
    u, up, beta, beta_p = seed.seed_eval_grid(params, xs)

    def psi_t(t):
        b_t = seed.seed_eval_grid(params, t)[2]
        return -oscillator.eigenfunction_derivative(n, t) + b_t * oscillator.eigenfunction(n, t)

    f = -oscillator.eigenfunction_derivative(n, xs) + beta * oscillator.eigenfunction(n, xs)
    fpp = _fd2(psi_t, xs, _capped(h, beta))
    vt = xs * xs - 2.0 * beta_p
    level = float(2 * n + 1)
    resid = -fpp + vt * f - level * f
    scale = 1.0 + np.abs(fpp) + np.abs(vt * f) + level * np.abs(f)
    return np.abs(resid) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}


def _new_state_rel(params, xs, h):
    u, up, beta, beta_p = seed.seed_eval_grid(params, xs)

    def psi_t(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / seed.seed_u(params, t)

    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 / u
    fpp = _fd2(psi_t, xs, _capped(h, beta))
    vt = xs * xs - 2.0 * beta_p
    eps = params.epsilon
    resid = -fpp + vt * f - eps * f
    scale = 1.0 + np.abs(fpp) + np.abs(vt * f) + abs(eps) * np.abs(f)
    return np.abs(resid) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}


def _annihilation_rel(params, xs, h):
    # Third-order lowering operator (-d+beta)(d+x)(d+beta) applied to 1/u by
    # nested differencing; the exact result is zero.  The innermost difference
    # is the only one whose truncation sees the full pole cascade of 1/u, so
    # it takes a small (and beta-capped) step; the outer two differentiate a
    # function that is already ~0 and take wide steps to keep the 1/(h1 h2 h3)
    # noise amplification down.
    def psi(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / seed.seed_u(params, t)

    def beta_at(t):
        return seed.seed_eval_grid(params, t)[2]

    u, up, b0, _ = seed.seed_eval_grid(params, xs)
    p0 = psi(xs)
    h_inner = np.minimum(h, _NESTED_CAP / (1.0 + np.abs(b0)))
    h_outer = _H_NESTED_OUTER

    def w1(t):
        return _fd1(psi, t, h_inner) + beta_at(t) * psi(t)

    def w2(t):
        return _fd1(w1, t, h_outer) + t * w1(t)

    d_psi = _fd1(psi, xs, h_inner)
    w1_0 = d_psi + b0 * p0
    d_w1 = _fd1(w1, xs, h_outer)
    w2_0 = d_w1 + xs * w1_0
    d_w2 = _fd1(w2, xs, h_outer)
    lowered = -d_w2 + b0 * w2_0
    scale = (
        1.0
        + np.abs(d_psi)
        + np.abs(b0 * p0)
        + np.abs(d_w1)
        + np.abs(xs * w1_0)
        + np.abs(d_w2)
        + np.abs(b0 * w2_0)
    )
    # The wide outer stencils are not beta-capped, so near a *real* node of u
    # they can straddle the pole of 1/u; those points are singular for this
    # check and get excluded geometrically.
    forced = _node_straddle_mask(u, xs, 2.0 * h_outer + float(np.max(h_inner)))
    return np.abs(lowered) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}, forced


def _node_straddle_mask(u, xs, reach):
    """Points whose stencil window may cross a sign-change bracket of u."""
    mask = np.zeros(xs.shape, dtype=bool)
    if xs.size < 2:
        return mask
    top = float(np.max(np.abs(u)))
    if top == 0.0:
        return mask
    re, im = u.real, u.imag
    re_negligible = bool(np.max(np.abs(re)) < 1e-12 * top)
    im_negligible = bool(np.max(np.abs(im)) < 1e-12 * top)
    crossing = ((re[:-1] * re[1:] < 0.0) | re_negligible) & (
        (im[:-1] * im[1:] < 0.0) | im_negligible
    )
    reach = reach + (xs[1] - xs[0])
    for i in np.nonzero(crossing)[0]:
        node = 0.5 * (xs[i] + xs[i + 1])
        mask |= np.abs(xs - node) <= reach
    return mask


def residual_report(
    kind: str,
    params: TransformParams,
    grid: Grid,
    n: int | None = None,
    h: float | None = None,
) -> ResidualReport:
    """Relative residual statistics for one construction over a grid.

    Points where a construction denominator falls below 1e-6 of its grid
    median are excluded and reported, not failed.
    """
    xs = grid.points()
    label = kind
    forced = None
    if kind == "schrodinger":
        rel, denoms = _schrodinger_rel(params, xs, h or _H_ORDER2)
    elif kind == "riccati":
        rel, denoms = _riccati_rel(params, xs, h or _H_ORDER1)
    elif kind in ("piv_family_1", "piv_family_2", "piv_family_3"):
        rel, denoms = _piv_rel(params, int(kind[-1]), xs)
    elif kind == "eigen":
        if n is None or not 0 <= n <= 10:
            raise ValueError("eigen residual requires 0 <= n <= 10")
        rel, denoms = _eigen_rel(params, n, xs, h or _H_ORDER2)
        label = f"eigen({n})"
    elif kind == "new_state":
        rel, denoms = _new_state_rel(params, xs, h or _H_ORDER2)
    elif kind == "annihilation":
        rel, denoms, forced = _annihilation_rel(params, xs, h or _H_NESTED_INNER)
    else:
        raise ValueError(f"unknown residual kind {kind!r}")

    excluded = np.zeros(xs.shape, dtype=bool)
    if forced is not None:
        excluded |= forced
    for mag, local_scale in denoms.values():
        finite = np.isfinite(mag) & np.isfinite(local_scale)
        med = float(np.median(mag[finite])) if bool(finite.any()) else 0.0
        if med == 0.0 or not np.isfinite(med):
            excluded |= True
        else:
            # Median rule for isolated dips, absolute rule for denominators
            # that are rounding noise over the whole grid (degenerate seeds).
            excluded |= (mag < EXCLUDE_REL * med) | (mag <= _DELTA_ABS * local_scale) | ~finite
    excluded |= ~np.isfinite(rel)
    if bool(excluded.all()):
        raise AllPointsExcluded(f"{label}: every grid point is singular")
    body = rel[~excluded]
    return ResidualReport(
        kind=label,
        max_relative=float(np.max(body)),
        mean_relative=float(np.mean(body)),
        excluded_points=tuple(float(v) for v in xs[excluded]),
        grid=grid,
    )
