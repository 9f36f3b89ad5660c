import os
from pathlib import Path

import mpmath
import numpy as np
import pytest

from susypiv import Grid, partner_potential, seed, verify
from susypiv.verify import BENCHMARK_PARAMS

# Interpreters the tests start import susypiv from this checkout too, as the
# tests do through pytest's ``pythonpath`` setting.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def _param_id(params):
    eps = params.epsilon
    return f"eps{eps.real:g}{eps.imag:+g}j_lam{params.lam:g}_kap{params.kappa:g}"


PARAM_IDS = [_param_id(p) for p in BENCHMARK_PARAMS]


def oracle_seed(params, x):
    """u and u' at x from mpmath's 1F1 at 40 digits, independent of the ODE.

    u = e^{-z/2} [M(a1, 1/2; z) + c x M(a2, 3/2; z)] with z = x^2 formed in
    extended precision, and u' through M'(a, b; z) = (a/b) M(a+1, b+1; z).
    """
    with mpmath.workdps(40):
        eps, c, x = mpmath.mpc(params.epsilon), mpmath.mpc(params.coefficient), mpmath.mpf(x)
        z = x * x
        a1, a2 = (1 - eps) / 4, (3 - eps) / 4
        m1, m2, s1, s2 = (
            mpmath.hyp1f1(a, b, z)
            for a, b in ((a1, 0.5), (a2, 1.5), (a1 + 1, 1.5), (a2 + 1, 2.5))
        )
        envelope = mpmath.exp(-z / 2)
        u = envelope * (m1 + c * x * m2)
        up = -x * u + envelope * (4 * x * a1 * s1 + c * m2 + 2 * c * z * (a2 / 1.5) * s2)
        return complex(u), complex(up)


def asymptote_error(params, x):
    """|V~(x) - asymptote| in units of (|eps+1| + 1)^3 / x^6, the size of the
    first term left out.  beta = x + a1/x + a3/x^3 + ... with a1 = -(eps+1)/2
    solves the Riccati relation, so V~ = x^2 - 2 beta' =
    x^2 - 2 - (eps+1)/x^2 - 3 (eps+1)(eps+3)/(4 x^4) + O(x^-6)."""
    eps, x = params.epsilon, np.asarray(x, dtype=float)
    want = x * x - 2.0 - (eps + 1) / x**2 - 3.0 * (eps + 1) * (eps + 3) / (4.0 * x**4)
    return np.abs(partner_potential(params, x) - want) * x**6 / (abs(eps + 1) + 1) ** 3


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with no seed chain and no verify grid state kept, so
    that the work a test pins does not depend on the tests run before it."""
    seed._last_chain = None
    verify._last_state = None


@pytest.fixture(scope="session")
def default_grid():
    return Grid(-5.0, 5.0, 0.01)


@pytest.fixture(scope="session")
def coarse_grid():
    return Grid(-5.0, 5.0, 0.05)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240901)
