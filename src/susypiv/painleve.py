"""The three families of complex Painleve IV solutions carried by a partner
system.

Each family is generated by one extremal state of the third-order ladder
algebra; its solution is g = -x - (ln psi)'.  The extremal states reduce to
closed forms in terms of the seed log-derivative:

    family 1:  (beta' - 1) u            energy eps + 2
    family 2:  (x + beta) e^{-x^2/2}    energy 1
    family 3:  1/u                      energy eps

so g, g', g'' never need numerical differentiation: h' = (V~ - E) - h^2 and
h'' = V~' - 2 h h' close the chain, with V~ and beta'' from ``susy._vt`` and
``susy._beta_pp``.  Each family's row of ``_FAMILY_TABLE`` holds its extremal
state and h with its denominators besides u, as ``grid.denominator`` pairs;
``family_grid_eval`` takes arrays of positions and returns g, g', g'' with
the formulas' denominators for the singular-point rule of ``grid.singular``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid, seed, susy
from .errors import BadFamily
from .seed import TransformParams


@dataclass(frozen=True)
class _Family:
    energy: object  # complex eps -> energy of the extremal state
    parameters: object  # complex eps -> (a, b) of the family's Painleve IV equation
    b_of_a: object  # complex a -> the b that a pins within the family
    state: object  # (xs, u, beta, beta') -> the extremal state at xs
    h: object  # (xs, beta, beta', beta'') -> (h, {name: (|f|, 1 + |f'|)}) for h's denominators f


def _plus_ratio(name, base, f, f_prime):
    """base + f'/f, with f as the (|f|, 1 + |f'|) pair ``name`` of the exclusion rules."""
    return base + f_prime / f, {name: grid.denominator(f, f_prime)}


_FAMILY_TABLE = {
    1: _Family(
        energy=lambda eps: eps + 2.0,
        parameters=lambda eps: (-(eps + 5.0) / 2.0, -((eps - 1.0) ** 2) / 2.0),
        b_of_a=lambda a: -2.0 * (a + 3.0) ** 2,
        state=lambda xs, u, beta, beta_prime: (beta_prime - 1.0) * u,
        h=lambda xs, beta, beta_prime, beta_pp: _plus_ratio(
            "beta_prime_minus_1", beta, beta_prime - 1.0, beta_pp
        ),
    ),
    2: _Family(
        energy=lambda eps: complex(1.0),
        parameters=lambda eps: (eps - 1.0, complex(-2.0)),
        b_of_a=lambda a: complex(-2.0),
        state=lambda xs, u, beta, beta_prime: (xs + beta) * np.exp(-0.5 * xs * xs),
        h=lambda xs, beta, beta_prime, beta_pp: _plus_ratio(
            "x_plus_beta", -xs, xs + beta, 1.0 + beta_prime
        ),
    ),
    3: _Family(
        energy=lambda eps: eps,
        parameters=lambda eps: ((1.0 - eps) / 2.0, -((eps + 1.0) ** 2) / 2.0),
        b_of_a=lambda a: -2.0 * (a - 1.0) ** 2,
        state=lambda xs, u, beta, beta_prime: 1.0 / u,
        h=lambda xs, beta, beta_prime, beta_pp: (-beta, {}),
    ),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _family(family) -> _Family:
    if family not in FAMILIES:
        raise BadFamily(f"family must be one of {FAMILIES}, got {family!r}")
    return _FAMILY_TABLE[family]


def extremal_energy(params: TransformParams, family: int) -> complex:
    """Energy of the family's extremal state."""
    return _family(family).energy(complex(params.epsilon))


def piv_parameters(params: TransformParams, family: int):
    """(a, b) of the Painleve IV equation solved by the family."""
    return _family(family).parameters(complex(params.epsilon))


def b_of_a(family: int, a) -> complex:
    """b pinned by a within each family: -2(a+3)^2, -2, -2(a-1)^2."""
    return _family(family).b_of_a(complex(a))


def piv_residual_terms(g, g_prime, g_double_prime, x, a, b):
    """The six signed terms of the family's Painleve IV equation
    g g'' = (g')^2/2 + 3 g^4/2 + 4 g^3 x + 2 g^2 (x^2 - a) + b; their sum
    (``piv_residual_sum``) is its defect.  Works elementwise on ndarrays.
    """
    return (
        g * g_double_prime,
        -0.5 * g_prime * g_prime,
        -1.5 * g**4,
        -4.0 * x * g**3,
        -2.0 * g * g * (x * x - complex(a)),
        -complex(b),
    )


def piv_residual_sum(terms):
    """The residual: the six terms summed from the first, in order.  (A 0j
    start would turn a -0.0 residual part into 0.0.)"""
    return sum(terms[1:], start=terms[0])


def family_grid_eval(params: TransformParams, family: int, xs):
    """Vectorized (g, g', g'', denominators) over an array of positions.

    ``denominators`` maps quantity names to (magnitude, local scale) pairs
    for the grid exclusion rule and ``grid.singular``; singular entries come
    back non-finite or as rounding noise, never raising.
    """
    _family(family)
    xs = np.asarray(xs, dtype=float)
    u, up, beta, beta_prime = seed.seed_eval_grid(params, xs)
    g, g_prime, g_pp, extra = _from_seed(params, family, xs, beta, beta_prime)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return g, g_prime, g_pp, {"u": grid.denominator(u, up), **extra}


def _from_seed(params: TransformParams, family: int, xs, beta, beta_prime):
    """``family_grid_eval`` from the seed's beta and beta' at ``xs``, with the
    denominators besides u."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta_pp = susy._beta_pp(xs, beta, beta_prime)
        vt = susy._vt(xs, beta_prime)
        vt_prime = 2.0 * xs - 2.0 * beta_pp
        h, denominators = _family(family).h(xs, beta, beta_prime, beta_pp)
        energy = extremal_energy(params, family)
        h_prime = (vt - energy) - h * h
        h_pp = vt_prime - 2.0 * h * h_prime
        return -xs - h, -1.0 - h_prime, -h_pp, denominators


def extremal_state_grid(params: TransformParams, family: int, xs):
    """Unnormalized extremal-state samples at scalar or array positions, read
    through ``susy._on_seed``: a scalar raises SingularPoint where u is singular."""
    return susy._on_seed(params, xs, _family(family).state)
