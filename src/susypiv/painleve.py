"""The three families of complex Painleve IV solutions carried by a partner
system.

Each family is generated by one extremal state of the third-order ladder
algebra; its solution is g = -x - (ln psi)'.  The extremal states reduce to
closed forms in terms of the seed log-derivative:

    family 1:  (beta' - 1) u            energy eps + 2
    family 2:  (x + beta) e^{-x^2/2}    energy 1
    family 3:  1/u                      energy eps

so g, g', g'' never need numerical differentiation: h' = (V~ - E) - h^2 and
h'' = V~' - 2 h h' close the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seed
from .errors import BadFamily, SingularPoint
from .seed import TransformParams

FAMILIES = (1, 2, 3)
_DELTA_SINGULAR = 1e-10


@dataclass(frozen=True)
class ChainTriple:
    """Superpotentials of the closed three-step chain at one point."""

    f1: complex
    f2: complex
    f3: complex

    def total(self) -> complex:
        # f1 and f3 are exact negatives; summing them first keeps the
        # identity total == x bit-exact.
        return (self.f1 + self.f3) + self.f2


@dataclass(frozen=True)
class PivPointEval:
    """g and its first two derivatives at one point."""

    g: complex
    g_prime: complex
    g_double_prime: complex
    x: float


def _check_family(family):
    if family not in FAMILIES:
        raise BadFamily(f"family must be one of {FAMILIES}, got {family!r}")


def extremal_energy(params: TransformParams, family: int) -> complex:
    """Energy of the family's extremal state."""
    _check_family(family)
    eps = complex(params.epsilon)
    if family == 1:
        return eps + 2.0
    if family == 2:
        return complex(1.0)
    return eps


def piv_parameters(params: TransformParams, family: int):
    """(a, b) of the Painleve IV equation solved by the family."""
    _check_family(family)
    eps = complex(params.epsilon)
    if family == 1:
        return -(eps + 5.0) / 2.0, -((eps - 1.0) ** 2) / 2.0
    if family == 2:
        return eps - 1.0, complex(-2.0)
    return (1.0 - eps) / 2.0, -((eps + 1.0) ** 2) / 2.0


def b_of_a(family: int, a) -> complex:
    """b pinned by a within each family: -2(a+3)^2, -2, -2(a-1)^2."""
    _check_family(family)
    a = complex(a)
    if family == 1:
        return -2.0 * (a + 3.0) ** 2
    if family == 2:
        return complex(-2.0)
    return -2.0 * (a - 1.0) ** 2


def _logderiv_from_eval(ev: seed.SeedEvaluation, family: int, x: float) -> complex:
    beta = ev.beta
    beta_prime = ev.beta_prime
    if family == 3:
        return -beta
    if family == 2:
        denom = x + beta
        if abs(denom) <= _DELTA_SINGULAR * (1.0 + abs(1.0 + beta_prime)):
            raise SingularPoint(f"x + beta vanishes at x={x}")
        return -x + (1.0 + beta_prime) / denom
    beta_pp = 2.0 * x - 2.0 * beta * beta_prime
    denom = beta_prime - 1.0
    if abs(denom) <= _DELTA_SINGULAR * (1.0 + abs(beta_pp)):
        raise SingularPoint(f"beta' - 1 vanishes at x={x}")
    return beta + beta_pp / denom


def extremal_logderiv(params: TransformParams, family: int, x) -> complex:
    """(ln psi)' of the family's extremal state, in closed form."""
    _check_family(family)
    xf = float(x)
    ev = seed.seed_eval(params, xf)
    return _logderiv_from_eval(ev, family, xf)


def piv_solution(params: TransformParams, family: int, x) -> PivPointEval:
    """g = -x - (ln psi)' with derivatives closed through the eigen relation.

    Shares the vectorized evaluation path, so scalar values agree bit-for-bit
    with grid sweeps; the scalar entry adds the SingularPoint screening.
    """
    _check_family(family)
    xf = float(x)
    ev = seed.seed_eval(params, xf)
    _logderiv_from_eval(ev, family, xf)  # raises at the family's singular denominators
    g, g_prime, g_pp, _ = family_grid_eval(params, family, np.asarray([xf]))
    return PivPointEval(
        g=complex(g[0]), g_prime=complex(g_prime[0]), g_double_prime=complex(g_pp[0]), x=xf
    )


def piv_residual_terms(g, g_prime, g_double_prime, x, a, b):
    """The six signed terms of the equation; their sum is the residual.

    Works elementwise for ndarray inputs.
    """
    return (
        g * g_double_prime,
        -0.5 * g_prime * g_prime,
        -1.5 * g**4,
        -4.0 * x * g**3,
        -2.0 * g * g * (x * x - complex(a)),
        -complex(b),
    )


def piv_residual(point: PivPointEval, a, b) -> complex:
    """Defect of g g'' = (g')^2/2 + 3 g^4/2 + 4 g^3 x + 2 g^2 (x^2 - a) + b."""
    terms = piv_residual_terms(point.g, point.g_prime, point.g_double_prime, point.x, a, b)
    total = 0j
    for t in terms:
        total += t
    return total


def chain_functions(params: TransformParams, x) -> ChainTriple:
    """(-beta, x, beta); the member sum telescopes to x exactly."""
    ev = seed.seed_eval(params, float(x))
    return ChainTriple(f1=-ev.beta, f2=complex(float(x)), f3=ev.beta)


@dataclass(frozen=True)
class PivSolution:
    """One solution family bound to fixed transform parameters."""

    family: int
    params: TransformParams
    a: complex
    b: complex

    @classmethod
    def for_family(cls, params: TransformParams, family: int) -> "PivSolution":
        a, b = piv_parameters(params, family)
        return cls(family=family, params=params, a=a, b=b)

    def eval(self, x) -> PivPointEval:
        return piv_solution(self.params, self.family, x)

    def residual(self, x) -> complex:
        return piv_residual(self.eval(x), self.a, self.b)


def family_grid_eval(params: TransformParams, family: int, xs):
    """Vectorized (g, g', g'', denominators) over an array of positions.

    ``denominators`` maps quantity names to |.| arrays feeding the median
    exclusion rule; singular entries come back non-finite instead of raising.
    """
    _check_family(family)
    xs = np.asarray(xs, dtype=float)
    u, up, beta, beta_prime = seed.seed_eval_grid(params, xs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta_pp = 2.0 * xs - 2.0 * beta * beta_prime
        vt = xs * xs - 2.0 * beta_prime
        vt_prime = 2.0 * xs - 2.0 * beta_pp
        # Denominator magnitudes are paired with their local scales so grid
        # consumers can apply both the median rule and the absolute rule.
        denominators = {"u": (np.abs(u), 1.0 + np.abs(up))}
        if family == 3:
            h = -beta
        elif family == 2:
            denom = xs + beta
            denominators["x_plus_beta"] = (np.abs(denom), 1.0 + np.abs(1.0 + beta_prime))
            h = -xs + (1.0 + beta_prime) / denom
        else:
            denom = beta_prime - 1.0
            denominators["beta_prime_minus_1"] = (np.abs(denom), 1.0 + np.abs(beta_pp))
            h = beta + beta_pp / denom
        energy = extremal_energy(params, family)
        h_prime = (vt - energy) - h * h
        h_pp = vt_prime - 2.0 * h * h_prime
        return -xs - h, -1.0 - h_prime, -h_pp, denominators


def extremal_state_grid(params: TransformParams, family: int, xs):
    """Unnormalized extremal-state samples over an array of positions."""
    _check_family(family)
    xs = np.asarray(xs, dtype=float)
    u, _, beta, beta_prime = seed.seed_eval_grid(params, xs)
    if family == 1:
        return (beta_prime - 1.0) * u
    if family == 2:
        return (xs + beta) * np.exp(-0.5 * xs * xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / u
