"""First-order SUSY partner system of the oscillator: the complex partner
potential, transformed eigenfunctions, the new spectral level, and quadrature
norms.

Sign convention: the creation-side intertwiner acts as -d/dx + beta, so the
transformed level-n state is -psi_n' + beta psi_n (unnormalized; ``normalize``
supplies the real positive constant on demand).

Every entry evaluates its positions through the grid path: a scalar position
is a one-element array, and raises SingularPoint where u is singular.
"""

from __future__ import annotations

import math

import numpy as np

from . import oscillator, seed
from .errors import NotNormalizable
from .grid import MAX_POINTS, Grid, on_points, screen
from .seed import TransformParams

_TAIL_REL = 1e-6
_OVERFLOW = 1e300


def _on_seed(params: TransformParams, x, fn):
    """``fn(xs, u, beta, beta')`` over the positions ``x`` through ``grid.on_points``,
    division warnings off: a scalar raises SingularPoint where u is singular."""

    def values(xs):
        u, up, beta, beta_prime = seed.seed_eval_grid(params, xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(xs, u, beta, beta_prime)
        if np.ndim(x) == 0:
            screen(seed.u_denominator(u, up), xs.item())
        return out

    return on_points(values, x)


def partner_potential(params: TransformParams, x):
    """Partner potential x^2 - 2 beta'; scalar or ndarray positions."""
    return _on_seed(params, x, lambda xs, u, beta, beta_prime: xs * xs - 2.0 * beta_prime)


def _image(n: int, xs, beta):
    """-psi_n' + beta psi_n at the positions ``xs`` (an array), for the seed's
    ``beta`` there."""
    psi, d_psi = oscillator._with_derivative(n, xs)
    return -d_psi + beta * psi


def partner_eigenfunction(params: TransformParams, n: int, x):
    """Image of oscillator level n under the transformation: -psi_n' + beta psi_n."""
    return _on_seed(params, x, lambda xs, u, beta, _: _image(n, xs, beta))


def level_annihilated(params: TransformParams, n: int) -> bool:
    """True when the image of level n vanishes identically.

    -psi_n' + beta psi_n = -W(u, psi_n)/u.  At eps = 2n+1, u and psi_n solve
    the same equation, so the Wronskian is the constant
    psi_n'(0) - (lam + i kappa) psi_n(0) (u(0) = 1): zero exactly when u is
    proportional to psi_n (n even, lam = kappa = 0).
    """
    if params.epsilon != oscillator.energy(n):
        return False
    psi, d_psi = oscillator.eigenfunction(n, 0.0), oscillator.eigenfunction_derivative(n, 0.0)
    return d_psi - params.coefficient * psi == 0


def new_state(params: TransformParams, x):
    """The eigenstate at the factorization energy: 1/u."""
    return _on_seed(params, x, lambda xs, u, beta, beta_prime: 1.0 / u)


def _within_rows(n_max: int) -> None:
    """ValueError when ``n_max`` is negative, or when the n_max + 2 levels of a
    spectrum pass ``grid.MAX_POINTS``, the row limit of a grid, before anything
    is built."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + 2 > MAX_POINTS:
        raise ValueError(f"n_max too large: more than {MAX_POINTS} spectrum rows")


def spectrum(params: TransformParams, n_max: int):
    """[epsilon, E_0, ..., E_{n_max}] with E_n = 2n+1.

    A duplicate (epsilon coinciding with an oscillator level) is returned
    as-is; ``spectrum_degenerate`` reports the coincidence.
    """
    _within_rows(n_max)
    return [complex(params.epsilon)] + [complex(2 * k + 1) for k in range(n_max + 1)]


def spectrum_degenerate(params: TransformParams, n_max: int) -> bool:
    """True when the new level exactly duplicates an oscillator level: eps is
    real and an odd integer in [1, 2 n_max + 1], exact for every n_max that
    ``_within_rows`` allows."""
    _within_rows(n_max)
    eps = complex(params.epsilon)
    return eps.imag == 0 and 1 <= eps.real <= 2 * n_max + 1 and eps.real % 2 == 1


def normalize(values, grid: Grid) -> float:
    """Positive constant C with C^2 * trapezoid(|f|^2) = 1 over the grid."""
    f = np.asarray(values, dtype=complex)
    if f.shape != (grid.n_points,):
        raise ValueError("values must be sampled on the grid")
    mag = np.abs(f)
    if not bool(np.all(np.isfinite(mag))):
        raise NotNormalizable("non-finite samples")
    peak = float(np.max(mag))
    if peak == 0.0:
        raise NotNormalizable("identically vanishing samples")
    if mag[0] > _TAIL_REL * peak or mag[-1] > _TAIL_REL * peak:
        raise NotNormalizable("grid tails have not decayed")
    with np.errstate(over="ignore"):  # an infinite integral is refused below
        sq = mag * mag
        integral = grid.step * (float(np.sum(sq)) - 0.5 * (float(sq[0]) + float(sq[-1])))
    if not math.isfinite(integral) or integral <= 0.0 or integral > _OVERFLOW:
        raise NotNormalizable(f"quadrature value {integral!r} out of range")
    return integral**-0.5
