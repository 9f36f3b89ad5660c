import cmath

import numpy as np
import pytest

from susypiv import (
    BadFamily,
    SingularPoint,
    TransformParams,
    b_of_a,
    chain_functions,
    extremal_energy,
    extremal_state_grid,
    family_grid_eval,
    fd_derivative,
    piv_parameters,
    piv_residual,
    piv_solution,
    residual_report,
    seed_eval,
    seed_eval_grid,
)

SET_1 = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)


class TestExtremalEnergy:
    def test_shifted_level(self):
        assert extremal_energy(TransformParams(epsilon=1.0 + 1.0j), 1) == 3.0 + 1.0j

    def test_oscillator_level(self):
        assert extremal_energy(SET_1, 2) == 1.0

    def test_seed_level(self):
        assert extremal_energy(TransformParams(epsilon=1.0 + 1.0j), 3) == 1.0 + 1.0j

    def test_bad_family(self):
        with pytest.raises(BadFamily):
            extremal_energy(SET_1, 4)


def _logderiv(params, family, x):
    """(ln psi)' of the family's extremal state: -x - g."""
    return -x - piv_solution(params, family, x).g


class TestExtremalLogderiv:
    def test_family_three_is_negated_beta(self):
        assert _logderiv(SET_1, 3, 0.0) == -(1.0 + 1.0j)
        # (ln psi_3)' = -beta exactly, so g = -x - (-beta) = beta - x.
        for x in (-1.7, 0.9):
            assert piv_solution(SET_1, 3, x).g == seed_eval(SET_1, x).beta - x

    def test_family_two_at_origin(self):
        # (1 + beta')/(x + beta) - x at 0 with beta = 1+i, beta' = 1-3i.
        got = _logderiv(SET_1, 2, 0.0)
        assert abs(got - (-0.5 - 2.5j)) <= 1e-14

    def test_family_one_at_origin(self):
        # beta + beta''/(beta'-1) with beta''(0) = -8+4i.
        got = _logderiv(SET_1, 1, 0.0)
        assert abs(got - (-1.0 - 5.0j) / 3.0) <= 1e-14

    @pytest.mark.parametrize("family", (1, 2, 3))
    def test_against_fd_of_state_logarithm(self, family):
        # Independent route: differentiate the closed-form extremal state.
        def state(t):
            ev = seed_eval(SET_1, t)
            if family == 1:
                return (ev.beta_prime - 1.0) * ev.u
            if family == 2:
                return (t + ev.beta) * cmath.exp(-0.5 * t * t)
            return 1.0 / ev.u

        for x in (-1.2, 0.0, 0.8, 2.1):
            ref = fd_derivative(state, x, 1) / state(x)
            got = _logderiv(SET_1, family, x)
            assert abs(got - ref) <= 1e-6 * (1.0 + abs(got)), (family, x)

    def test_family_one_degenerate_seed_is_singular(self):
        # eps = -1, lam = kappa = 0 gives beta' = 1 identically.
        with pytest.raises(SingularPoint):
            piv_solution(TransformParams(epsilon=-1.0), 1, 0.7)


class TestPivSolution:
    def test_family_three_is_beta_minus_x(self):
        for x in (-2.0, 0.0, 1.3):
            ev = seed_eval(SET_1, x)
            assert piv_solution(SET_1, 3, x).g == ev.beta - x

    def test_family_two_at_origin(self):
        assert abs(piv_solution(SET_1, 2, 0.0).g - (0.5 + 2.5j)) <= 1e-14

    def test_family_one_at_origin(self):
        assert abs(piv_solution(SET_1, 1, 0.0).g - (1.0 + 5.0j) / 3.0) <= 1e-14

    @pytest.mark.parametrize("family", (1, 2, 3))
    def test_derivative_closure_against_fd(self, family):
        for x in (-1.4, 0.3, 1.9):
            point = piv_solution(SET_1, family, x)
            g_fn = lambda t: piv_solution(SET_1, family, t).g
            ref_p = fd_derivative(g_fn, x, 1)
            ref_pp = fd_derivative(g_fn, x, 2)
            assert abs(point.g_prime - ref_p) <= 1e-6 * (1.0 + abs(point.g_prime))
            assert abs(point.g_double_prime - ref_pp) <= 1e-6 * (1.0 + abs(point.g_double_prime))


class TestPivParameters:
    def test_family_two_printed_values(self):
        a, b = piv_parameters(TransformParams(epsilon=4.0 + 0.5j, lam=1.0, kappa=1.0), 2)
        assert a == 3.0 + 0.5j
        assert b == -2.0

    def test_family_three_substitution(self):
        a, b = piv_parameters(TransformParams(epsilon=1.0 + 1.0j), 3)
        assert abs(a - (-0.5j)) <= 1e-15
        assert abs(b - (-1.5 - 2.0j)) <= 1e-15

    def test_family_one_degenerate_b(self):
        a, b = piv_parameters(TransformParams(epsilon=1.0), 1)
        assert a == -3.0
        assert b == 0.0

    def test_b_of_a_family_relations(self):
        assert b_of_a(1, -3.0) == 0.0
        assert b_of_a(2, 123.0 - 4.0j) == -2.0
        got = b_of_a(3, -0.5j)
        assert abs(got - (-1.5 - 2.0j)) <= 1e-15

    def test_b_of_a_consistency_sweep(self, rng):
        for _ in range(200):
            eps = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(eps) > 10.0:
                eps *= 10.0 / abs(eps)
            params = TransformParams(epsilon=eps)
            for family in (1, 2, 3):
                a, b = piv_parameters(params, family)
                via_a = b_of_a(family, a)
                tol = 4.0 * np.spacing(max(abs(b), abs(via_a), 1.0e-300))
                assert abs(b - via_a) <= tol, (eps, family)


class TestPivResidual:
    def test_trivial_zero_solution(self):
        # eps = -1, lam = kappa = 0: beta = x up to rounding, so g3 vanishes
        # and b3 = 0 exactly; the residual collapses to -b = 0.
        params = TransformParams(epsilon=-1.0)
        a, b = piv_parameters(params, 3)
        assert b == 0.0
        for x in (-2.2, 0.5, 3.0):
            point = piv_solution(params, 3, x)
            assert abs(point.g) <= 1e-13
            assert abs(piv_residual(point, a, b)) <= 1e-13

    def test_pointwise_residual_family_two(self):
        params = TransformParams(epsilon=4.0 + 0.5j, lam=1.0, kappa=1.0)
        a, b = piv_parameters(params, 2)
        point = piv_solution(params, 2, 0.7)
        rel = abs(piv_residual(point, a, b)) / (1.0 + abs(point.g) ** 4)
        assert rel <= 1e-8

    def test_grid_residual_small_imaginary_shift(self, default_grid):
        params = TransformParams(epsilon=-1.0 + 1e-2j, lam=1.0, kappa=1.0)
        report = residual_report("piv_family_1", params, default_grid)
        assert report.max_relative <= 1e-8


class TestChainFunctions:
    def test_values_at_origin(self):
        chain = chain_functions(SET_1, 0.0)
        assert chain.f1 == -(1.0 + 1.0j)
        assert chain.f2 == 0.0
        assert chain.f3 == 1.0 + 1.0j
        assert chain.total() == 0.0

    def test_sum_is_exact(self):
        chain = chain_functions(SET_1, 2.5)
        assert chain.total() == 2.5 + 0.0j

    def test_third_function_reproduces_family_three(self):
        for x in (-1.1, 0.6):
            chain = chain_functions(SET_1, x)
            assert chain.f3 - x == piv_solution(SET_1, 3, x).g


def test_pointwise_residual_family_two_on_set_1():
    a, b = piv_parameters(SET_1, 2)
    assert (a, b) == (SET_1.epsilon - 1.0, -2.0)
    point = piv_solution(SET_1, 2, 0.4)
    assert abs(piv_residual(point, a, b)) / (1.0 + abs(point.g) ** 4) <= 1e-10


def test_family_grid_eval_matches_scalar(default_grid):
    xs = np.array([-2.0, -0.3, 1.6])
    for family in (1, 2, 3):
        g, gp, gpp, denoms = family_grid_eval(SET_1, family, xs)
        assert "u" in denoms
        for i, x in enumerate(xs):
            point = piv_solution(SET_1, family, x)
            assert g[i] == point.g
            assert gp[i] == point.g_prime
            assert gpp[i] == point.g_double_prime


def test_extremal_state_grid_matches_closed_forms():
    xs = np.array([-1.0, 0.0, 2.0])
    u, _, beta, beta_p = seed_eval_grid(SET_1, xs)
    np.testing.assert_array_equal(extremal_state_grid(SET_1, 1, xs), (beta_p - 1.0) * u)
    np.testing.assert_array_equal(
        extremal_state_grid(SET_1, 2, xs), (xs + beta) * np.exp(-0.5 * xs * xs)
    )
    np.testing.assert_array_equal(extremal_state_grid(SET_1, 3, xs), 1.0 / u)


def test_bad_family_everywhere():
    with pytest.raises(BadFamily):
        piv_parameters(SET_1, 0)
    with pytest.raises(BadFamily):
        b_of_a(5, 1.0)
    with pytest.raises(BadFamily):
        piv_solution(SET_1, "x", 0.0)
