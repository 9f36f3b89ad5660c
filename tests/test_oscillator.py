import math

import numpy as np
import pytest

from susypiv import (
    DegreeTooLarge,
    TransformParams,
    eigenfunction,
    eigenfunction_derivative,
    energy,
    family_grid_eval,
    fd_derivative,
    seed_eval,
    seed_eval_grid,
)
from susypiv.grid import singular

PI_QUARTER = math.pi ** -0.25


def test_energies():
    assert energy(0) == 1.0
    assert energy(3) == 7.0
    assert energy(10) == 21.0


def test_ground_state_at_origin():
    assert abs(eigenfunction(0, 0.0) - PI_QUARTER) <= 1e-15


def test_first_state_odd_parity():
    assert eigenfunction(1, 0.0) == 0.0


def test_norm_by_quadrature():
    # Independent trapezoid oracle on [-12, 12], step 1e-3.
    xs = np.arange(-12.0, 12.0 + 1e-3 / 2, 1e-3)
    psi = eigenfunction(2, xs)
    sq = psi * psi
    integral = 1e-3 * (sq.sum() - 0.5 * (sq[0] + sq[-1]))
    assert abs(integral - 1.0) <= 1e-8


def test_eigen_residual_absolute():
    # max |(-d^2 + x^2 - (2n+1)) psi_n| <= 1e-6 with Richardson differences.
    xs = np.arange(-5.0, 5.0 + 0.005, 0.01)
    h = 1e-4
    for n in range(11):
        def psi(t, n=n):
            return eigenfunction(n, t)

        centre = psi(xs)
        coarse = (psi(xs + h) - 2.0 * centre + psi(xs - h)) / (h * h)
        fine = (psi(xs + 0.5 * h) - 2.0 * centre + psi(xs - 0.5 * h)) / (0.25 * h * h)
        second = (4.0 * fine - coarse) / 3.0
        resid = -second + xs * xs * centre - (2 * n + 1) * centre
        assert np.max(np.abs(resid)) <= 1e-6, n


def test_orthonormality():
    xs = np.arange(-12.0, 12.0 + 5e-4, 1e-3)
    states = [eigenfunction(n, xs) for n in range(6)]
    for m in range(6):
        for n in range(6):
            prod = states[m] * states[n]
            integral = 1e-3 * (prod.sum() - 0.5 * (prod[0] + prod[-1]))
            assert abs(integral - (1.0 if m == n else 0.0)) <= 1e-7, (m, n)


def test_derivative_ladder_identity():
    xs = np.linspace(-4.0, 4.0, 17)
    for n in (0, 1, 4):
        got = eigenfunction_derivative(n, xs)
        ref = fd_derivative(lambda t: eigenfunction(n, t), xs, 1, 1e-4)
        np.testing.assert_allclose(got, ref.real, rtol=0, atol=1e-8)


def test_first_state_slope_at_origin():
    assert abs(eigenfunction_derivative(1, 0.0) - math.sqrt(2.0) * PI_QUARTER) <= 1e-14


def test_degree_cap():
    assert np.isfinite(eigenfunction(60, 1.0))
    with pytest.raises(DegreeTooLarge):
        eigenfunction(61, 1.0)


def _creation_logderiv(x, ell, ell_prime):
    """Log-derivative of the creation image (-d/dx + x) phi, from phi's
    log-derivative ell and its derivative ell'."""
    return ell + (1.0 - ell_prime) / (x - ell)


class TestCreationLogderiv:
    def test_gaussian_at_one(self):
        # phi = e^{-x^2/2}: a+ phi = 2x phi is proportional to psi_1, whose
        # log-derivative 1/x - x vanishes at 1.
        assert eigenfunction_derivative(1, 1.0) / eigenfunction(1, 1.0) == 0.0

    def test_gaussian_at_two(self):
        assert eigenfunction_derivative(1, 2.0) / eigenfunction(1, 2.0) == -1.5

    def test_seed_logderiv_value(self):
        # Derived with the finite-difference oracle below: beta(0) = 1+i,
        # beta'(0) = 1-3i gives (1+i) + 3i/(-1-i) = -0.5-0.5i.
        params = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)
        ev = seed_eval(params, 0.0)
        got = _creation_logderiv(0.0, ev.beta, ev.beta_prime)
        assert abs(got - (-0.5 - 0.5j)) <= 1e-14

    def test_seed_logderiv_against_fd_oracle(self):
        params = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)

        def raised(t):
            u, _, beta, _ = seed_eval_grid(params, t)
            return (t - beta) * u  # a+ u = (x - beta) u

        ref = fd_derivative(raised, 0.0, 1) / raised(0.0)
        ev = seed_eval(params, 0.0)
        got = _creation_logderiv(0.0, ev.beta, ev.beta_prime)
        assert abs(got - ref) <= 1e-9

    def test_singular_when_logderiv_matches_x(self):
        # eps = 1, lam = kappa = 0: u = e^{-x^2/2}, so the log-derivative -beta
        # of 1/u matches x, and family 2's extremal state (x + beta) e^{-x^2/2}
        # vanishes to rounding level: its denominator x + beta is singular.
        denoms = family_grid_eval(TransformParams(epsilon=1.0), 2, np.array([1.0]))[3]
        assert bool(singular(*denoms["x_plus_beta"])[0])
