import numpy as np
import pytest

from conftest import _param_id
from susypiv import (
    BadFamily,
    TransformParams,
    b_of_a,
    extremal_energy,
    extremal_state_grid,
    family_grid_eval,
    fd_derivative,
    piv_parameters,
    piv_residual_sum,
    piv_residual_terms,
    residual_report,
    seed_eval_grid,
)
from susypiv import painleve
from susypiv.grid import singular
from susypiv.verify import BENCHMARK_PARAMS

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


def _g(params, family, xs):
    return family_grid_eval(params, family, xs)[0]


def _beta(params, xs):
    return seed_eval_grid(params, xs)[2]


def _logderiv(params, family, xs):
    """(ln psi)' of the family's extremal state: -x - g."""
    return -xs - _g(params, family, xs)


def _residual(params, family, xs):
    """g, and the defect of the family's Painleve IV equation, at ``xs``."""
    g, gp, gpp, _ = family_grid_eval(params, family, xs)
    a, b = piv_parameters(params, family)
    return g, piv_residual_sum(piv_residual_terms(g, gp, gpp, xs, a, b))


class TestExtremalLogderiv:
    def test_family_three_is_negated_beta(self):
        assert _logderiv(SET_1, 3, np.array([0.0]))[0] == -(1.0 + 1.0j)
        # (ln psi_3)' = -beta exactly, so g = -x - (-beta) = beta - x.
        xs = np.array([-1.7, 0.9])
        np.testing.assert_array_equal(_g(SET_1, 3, xs), _beta(SET_1, xs) - xs)

    def test_family_two_at_origin(self):
        # (1 + beta')/(x + beta) - x at 0 with beta = 1+i, beta' = 1-3i.
        got = _logderiv(SET_1, 2, np.array([0.0]))[0]
        assert abs(got - (-0.5 - 2.5j)) <= 1e-14

    def test_family_one_at_origin(self):
        # beta + beta''/(beta'-1) with beta''(0) = -8+4i.
        got = _logderiv(SET_1, 1, np.array([0.0]))[0]
        assert abs(got - (-1.0 - 5.0j) / 3.0) <= 1e-14

    @pytest.mark.parametrize("family", (1, 2, 3))
    def test_against_fd_of_state_logarithm(self, family):
        # Independent route: differentiate the closed-form extremal state
        # (pinned to the closed forms by the test at the end of this file).
        state = lambda t: extremal_state_grid(SET_1, family, t)
        xs = np.array([-1.2, 0.0, 0.8, 2.1])
        ref = fd_derivative(state, xs, 1) / state(xs)
        got = _logderiv(SET_1, family, xs)
        np.testing.assert_array_less(np.abs(got - ref), 1e-6 * (1.0 + np.abs(got)))

    def test_family_one_degenerate_seed_is_singular(self):
        # eps = -1, lam = kappa = 0 gives beta' = 1 identically.
        _, _, _, denoms = family_grid_eval(TransformParams(epsilon=-1.0), 1, np.array([0.7]))
        assert bool(singular(*denoms["beta_prime_minus_1"])[0])


class TestPivSolution:
    def test_family_three_is_beta_minus_x(self):
        xs = np.array([-2.0, 0.0, 1.3])
        np.testing.assert_array_equal(_g(SET_1, 3, xs), _beta(SET_1, xs) - xs)

    def test_family_two_at_origin(self):
        assert abs(_g(SET_1, 2, np.array([0.0]))[0] - (0.5 + 2.5j)) <= 1e-14

    def test_family_one_at_origin(self):
        assert abs(_g(SET_1, 1, np.array([0.0]))[0] - (1.0 + 5.0j) / 3.0) <= 1e-14

    @pytest.mark.parametrize("family", (1, 2, 3))
    def test_derivative_closure_against_fd(self, family):
        xs = np.array([-1.4, 0.3, 1.9])
        _, gp, gpp, _ = family_grid_eval(SET_1, family, xs)
        g_fn = lambda t: _g(SET_1, family, t)
        ref_p = fd_derivative(g_fn, xs, 1)
        ref_pp = fd_derivative(g_fn, xs, 2)
        np.testing.assert_array_less(np.abs(gp - ref_p), 1e-6 * (1.0 + np.abs(gp)))
        np.testing.assert_array_less(np.abs(gpp - ref_pp), 1e-6 * (1.0 + np.abs(gpp)))


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
        assert piv_parameters(params, 3)[1] == 0.0
        g, resid = _residual(params, 3, np.array([-2.2, 0.5, 3.0]))
        assert bool(np.all(np.abs(g) <= 1e-13))
        assert bool(np.all(np.abs(resid) <= 1e-13))

    def test_pointwise_residual_family_two(self):
        params = TransformParams(epsilon=4.0 + 0.5j, lam=1.0, kappa=1.0)
        g, resid = _residual(params, 2, np.array([0.7]))
        assert abs(resid[0]) / (1.0 + abs(g[0]) ** 4) <= 1e-8

    def test_grid_residual_small_imaginary_shift(self, default_grid):
        params = TransformParams(epsilon=-1.0 + 1e-2j, lam=1.0, kappa=1.0)
        report = residual_report("piv_family_1", params, default_grid)
        assert report.max_relative <= 1e-8


def test_pointwise_residual_family_two_on_set_1():
    a, b = piv_parameters(SET_1, 2)
    assert (a, b) == (SET_1.epsilon - 1.0, -2.0)
    g, resid = _residual(SET_1, 2, np.array([0.4]))
    assert abs(resid[0]) / (1.0 + abs(g[0]) ** 4) <= 1e-10


def test_family_grid_eval_matches_scalar(default_grid):
    # A position evaluated alone gives the bits of its element in a grid call.
    xs = np.array([-2.0, -0.3, 1.6])
    for family in (1, 2, 3):
        g, gp, gpp, denoms = family_grid_eval(SET_1, family, xs)
        assert "u" in denoms
        for i, x in enumerate(xs):
            one = family_grid_eval(SET_1, family, np.array([x]))
            assert (one[0][0], one[1][0], one[2][0]) == (g[i], gp[i], gpp[i])


def _from_seed_by_branches(params, family, xs, beta, beta_prime):
    """``painleve._from_seed`` as an if-chain on the family, each branch
    holding one family's h and denominator."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta_pp = 2.0 * xs - 2.0 * beta * beta_prime
        vt = xs * xs - 2.0 * beta_prime
        vt_prime = 2.0 * xs - 2.0 * beta_pp
        denominators = {}
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


# The benchmark sets, a real seed, and family 1's degenerate set, where
# beta' - 1 is at rounding level everywhere.
_PINNED_FAMILIES = [
    (params, family)
    for params in (*BENCHMARK_PARAMS, TransformParams(epsilon=3.0, lam=1.0))
    for family in (1, 2, 3)
] + [(TransformParams(epsilon=-1.0), 1)]


@pytest.mark.parametrize(
    "params, family", _PINNED_FAMILIES, ids=[f"{_param_id(p)}-family{f}" for p, f in _PINNED_FAMILIES]
)
def test_family_rows_keep_the_bits_of_the_branches(params, family, default_grid):
    xs = default_grid.points()
    _, _, beta, beta_prime = seed_eval_grid(params, xs)
    *got, got_denoms = painleve._from_seed(params, family, xs, beta, beta_prime)
    *want, want_denoms = _from_seed_by_branches(params, family, xs, beta, beta_prime)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert list(got_denoms) == list(want_denoms)
    for name, pair in want_denoms.items():
        assert [a.tobytes() for a in got_denoms[name]] == [a.tobytes() for a in pair], name


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
        family_grid_eval(SET_1, "x", np.array([0.0]))
