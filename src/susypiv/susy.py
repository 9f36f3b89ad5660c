"""First-order SUSY partner system of the oscillator: the complex partner
potential, transformed eigenfunctions, the new spectral level, and quadrature
norms.

Sign convention: the creation-side intertwiner acts as -d/dx + beta, so the
transformed level-n state is -psi_n' + beta psi_n (unnormalized; ``normalize``
supplies the real positive constant on demand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscillator, seed
from .errors import NotNormalizable
from .grid import Grid
from .seed import TransformParams

_TAIL_REL = 1e-6
_OVERFLOW = 1e300


def partner_potential(params: TransformParams, x):
    """Partner potential x^2 - 2 beta'; scalar or ndarray positions."""
    x_in = np.asarray(x, dtype=float)
    if x_in.ndim == 0:
        ev = seed.seed_eval(params, float(x_in))
        return ev.x * ev.x - 2.0 * ev.beta_prime
    _, _, _, beta_prime = seed.seed_eval_grid(params, x_in)
    return x_in * x_in - 2.0 * beta_prime


def partner_eigenfunction(params: TransformParams, n: int, x):
    """Image of oscillator level n under the transformation: -psi_n' + beta psi_n."""
    x_in = np.asarray(x, dtype=float)
    if x_in.ndim == 0:
        xf = float(x_in)
        ev = seed.seed_eval(params, xf)
        return -oscillator.eigenfunction_derivative(n, xf) + ev.beta * oscillator.eigenfunction(n, xf)
    _, _, beta, _ = seed.seed_eval_grid(params, x_in)
    return -oscillator.eigenfunction_derivative(n, x_in) + beta * oscillator.eigenfunction(n, x_in)


def new_state(params: TransformParams, x):
    """The eigenstate at the factorization energy: 1/u."""
    x_in = np.asarray(x, dtype=float)
    if x_in.ndim == 0:
        ev = seed.seed_eval(params, float(x_in))
        return 1.0 / ev.u
    u = seed.seed_u(params, x_in)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / u


def spectrum(params: TransformParams, n_max: int):
    """[epsilon, E_0, ..., E_{n_max}] with E_n = 2n+1.

    A duplicate (epsilon coinciding with an oscillator level) is returned
    as-is; ``spectrum_degenerate`` reports the coincidence.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [complex(params.epsilon)] + [complex(2 * k + 1) for k in range(n_max + 1)]


def spectrum_degenerate(params: TransformParams, n_max: int) -> bool:
    """True when the new level exactly duplicates an oscillator level."""
    eps = complex(params.epsilon)
    return any(eps == complex(2 * k + 1) for k in range(n_max + 1))


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
    sq = mag * mag
    integral = grid.step * (float(np.sum(sq)) - 0.5 * (float(sq[0]) + float(sq[-1])))
    if not math.isfinite(integral) or integral <= 0.0 or integral > _OVERFLOW:
        raise NotNormalizable(f"quadrature value {integral!r} out of range")
    return integral**-0.5


@dataclass(frozen=True)
class PartnerSystem:
    """Partner potential and states evaluated over one grid."""

    params: TransformParams
    grid: Grid

    def potential_values(self):
        return partner_potential(self.params, self.grid.points())

    def eigenfunction_values(self, n: int):
        return partner_eigenfunction(self.params, n, self.grid.points())

    def new_state_values(self):
        return new_state(self.params, self.grid.points())

    def spectrum(self, n_max: int):
        return spectrum(self.params, n_max)
