"""Complex Schrodinger seed u(x; eps, lam, kappa) for the oscillator and its
logarithmic derivative beta = u'/u.

All higher derivatives are eliminated through u'' = (x^2 - eps) u, so beta'
is returned in the closed Riccati form x^2 - eps - beta^2 rather than by
differentiating the hypergeometric series twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kummer
from .errors import SingularPoint
from .grid import Grid

_DELTA_SINGULAR = 1e-10
_ZERO_SCAN_REL = 1e-6
# b of the two seed branches and of their contiguous shifts (see _branch_series).
_BRANCH_B = np.array([0.5, 1.5, 1.5, 2.5])


@dataclass(frozen=True)
class TransformParams:
    """Factorization energy and seed coefficients; the input of every construction."""

    epsilon: complex
    lam: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        eps = complex(self.epsilon)
        if not (math.isfinite(eps.real) and math.isfinite(eps.imag)):
            raise ValueError("epsilon must be finite")
        lam = float(self.lam)
        kappa = float(self.kappa)
        if not (math.isfinite(lam) and math.isfinite(kappa)):
            raise ValueError("lam and kappa must be finite")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "kappa", kappa)

    @property
    def coefficient(self) -> complex:
        """lam + i*kappa, the weight of the odd branch."""
        return complex(self.lam, self.kappa)


@dataclass(frozen=True)
class SeedEvaluation:
    """Seed value, derivative, and log-derivative data at one point."""

    u: complex
    u_prime: complex
    beta: complex
    beta_prime: complex
    x: float


def _branch_parameters(params: TransformParams):
    eps = params.epsilon
    return (1.0 - eps) / 4.0, (3.0 - eps) / 4.0


def _branch_series(params: TransformParams, xs, rows: int):
    """The first ``rows`` of M(a1, 1/2), M(a2, 3/2), M(a1+1, 3/2), M(a2+1, 5/2)
    at z = xs**2, summed in one kummer_m call."""
    a1, a2 = _branch_parameters(params)
    lead = (rows,) + (1,) * xs.ndim
    a = np.array([a1, a2, a1 + 1.0, a2 + 1.0])[:rows].reshape(lead)
    return kummer.kummer_m(a, _BRANCH_B[:rows].reshape(lead), xs * xs)


def seed_u(params: TransformParams, x):
    """Seed solution e^{-x^2/2} [M(a1, 1/2; x^2) + (lam+i*kappa) x M(a2, 3/2; x^2)].

    ``x`` may be a scalar or ndarray.
    """
    x_in = np.asarray(x, dtype=float)
    scalar = x_in.ndim == 0
    xs = np.atleast_1d(x_in)
    m1, m2 = np.exp(-0.5 * xs * xs) * _branch_series(params, xs, 2)
    u = m1 + params.coefficient * xs * m2
    return complex(u[0]) if scalar else u


def _u_and_derivative(params, xs):
    """u and u' on an ndarray of positions (no singular screening).

    M' comes from the contiguous shift M'(a, b; z) = (a/b) M(a+1, b+1; z).
    The envelope e^{-x^2/2} scales each series before they are combined, so
    nothing overflows while every M is finite.
    """
    a1, a2 = _branch_parameters(params)
    c = params.coefficient
    m1, m2, s1, s2 = np.exp(-0.5 * xs * xs) * _branch_series(params, xs, 4)
    u = m1 + c * xs * m2
    u_prime = 2.0 * xs * (a1 / 0.5) * s1 + c * m2 + 2.0 * c * (xs * xs) * (a2 / 1.5) * s2
    return u, u_prime - xs * u


def seed_eval(params: TransformParams, x) -> SeedEvaluation:
    """Point evaluation with log-derivative fields.

    Raises SingularPoint within rounding distance of a real node of u;
    that can only happen for real factorization energies.  Routed through
    the vectorized path so scalar and grid evaluations agree bit-for-bit.
    """
    xf = float(x)
    u, up, beta, beta_prime = seed_eval_grid(params, np.asarray([xf]))
    u0 = complex(u[0])
    up0 = complex(up[0])
    if abs(u0) <= _DELTA_SINGULAR * (1.0 + abs(up0)):
        raise SingularPoint(f"seed solution vanishes at x={xf}")
    return SeedEvaluation(
        u=u0, u_prime=up0, beta=complex(beta[0]), beta_prime=complex(beta_prime[0]), x=xf
    )


def seed_eval_grid(params: TransformParams, xs):
    """Vectorized (u, u', beta, beta') over an array of positions.

    No singular screening: division at an exact node produces non-finite
    entries, which grid consumers mask via the median exclusion rule.
    """
    xs = np.asarray(xs, dtype=float)
    u, up = _u_and_derivative(params, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = up / u
    beta_prime = xs * xs - params.epsilon - beta * beta
    return u, up, beta, beta_prime


def real_case_lambda(nu: float, epsilon: float) -> float:
    """Seed coefficient 2 nu Gamma((3-eps)/4) / Gamma((1-eps)/4) reproducing
    the real-parameter construction (real eps, kappa = 0)."""
    g_num = kummer.gamma((3.0 - epsilon) / 4.0)
    g_den = kummer.gamma((1.0 - epsilon) / 4.0)
    return 2.0 * nu * (g_num / g_den).real


def locate_real_zeros(params: TransformParams, grid: Grid):
    """Grid points adjacent to real zeros of u; an empty list means node-free.

    A point qualifies when |u| drops below 1e-6 of the grid median, or when
    the real and imaginary parts both change sign across an interval (a
    component negligible over the whole grid counts as changing).
    """
    xs = grid.points()
    u = seed_u(params, xs)
    au = np.abs(u)
    med = float(np.median(au))
    flagged = np.zeros(xs.shape, dtype=bool)
    if med > 0.0:
        flagged |= au < _ZERO_SCAN_REL * med
    else:
        flagged |= au == 0.0
    for i in sign_change_brackets(u):
        flagged[i if au[i] <= au[i + 1] else i + 1] = True
    return [float(v) for v in xs[flagged]]


def sign_change_brackets(u):
    """Indices i where Re u and Im u both change sign between u[i] and u[i+1].

    A component below 1e-12 of max|u| over the whole array counts as changing
    sign everywhere, so a real (or imaginary) u brackets its nodes by the
    other component alone.  An all-zero u has no brackets.
    """
    top = float(np.max(np.abs(u), initial=0.0))
    if top == 0.0:
        return np.empty(0, dtype=int)
    re, im = u.real, u.imag
    re_negligible = bool(np.max(np.abs(re)) < 1e-12 * top)
    im_negligible = bool(np.max(np.abs(im)) < 1e-12 * top)
    crossing = ((re[:-1] * re[1:] < 0.0) | re_negligible) & (
        (im[:-1] * im[1:] < 0.0) | im_negligible
    )
    return np.nonzero(crossing)[0]
