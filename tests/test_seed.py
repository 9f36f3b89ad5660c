import math

import mpmath
import numpy as np
import pytest

from susypiv import (
    PoleArgument,
    SingularPoint,
    TransformParams,
    fd_derivative,
    kummer_oracle,
    locate_real_zeros,
    real_case_lambda,
    residual_report,
    seed_eval,
    seed_eval_grid,
    seed_u,
)
from susypiv.verify import BENCHMARK_PARAMS

from conftest import PARAM_IDS

SET_1 = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_value_at_origin_is_one(params):
    assert seed_u(params, 0.0) == 1.0 + 0.0j


def test_real_collapse_to_growing_gaussian():
    # eps = -1, lam = kappa = 0: a = b = 1/2 collapses M to e^{x^2}.
    params = TransformParams(epsilon=-1.0)
    xs = np.linspace(-4.0, 4.0, 33)
    np.testing.assert_allclose(seed_u(params, xs), np.exp(0.5 * xs * xs), rtol=1e-13)


def test_against_oracle_assembly():
    # Assemble u(1) from the extended-precision 1F1 oracle.
    eps = SET_1.epsilon
    o1 = complex(kummer_oracle((1.0 - eps) / 4.0, 0.5, 1.0, 30))
    o2 = complex(kummer_oracle((3.0 - eps) / 4.0, 1.5, 1.0, 30))
    want = math.exp(-0.5) * (o1 + (1.0 + 1.0j) * o2)
    got = seed_u(SET_1, 1.0)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_finite_just_below_overflow_limit():
    # At x = 26.6 the seed series reach 2e307; combined before the
    # exp(-x**2/2) scaling they would overflow.
    x = 26.6
    eps = SET_1.epsilon
    o1 = kummer_oracle((1.0 - eps) / 4.0, 0.5, x * x, 30)
    o2 = kummer_oracle((3.0 - eps) / 4.0, 1.5, x * x, 30)
    with mpmath.workdps(30):
        want = complex(mpmath.exp(-x * x / 2) * (o1 + mpmath.mpc(1, 1) * x * o2))
    values = seed_eval_grid(SET_1, np.array([x]))
    assert all(bool(np.all(np.isfinite(v))) for v in values)
    assert abs(values[0][0] - want) <= 1e-9 * abs(want)


class TestSeedEval:
    def test_log_derivative_at_origin(self):
        ev = seed_eval(SET_1, 0.0)
        assert ev.beta == 1.0 + 1.0j

    def test_riccati_value_at_origin(self):
        ev = seed_eval(SET_1, 0.0)
        assert ev.beta_prime == 1.0 - 3.0j

    def test_log_derivative_at_origin_second_set(self):
        params = TransformParams(epsilon=3.0 + 1e-3j, lam=2.0, kappa=2.0)
        assert seed_eval(params, 0.0).beta == 2.0 + 2.0j

    def test_beta_prime_matches_finite_difference(self):
        for x in (-2.3, 0.4, 1.7, 4.1):
            ev = seed_eval(SET_1, x)
            ref = fd_derivative(lambda t: seed_eval(SET_1, t).beta, x, 1)
            assert abs(ev.beta_prime - ref) <= 1e-6 * abs(ev.beta_prime)

    def test_consistency_with_grid_path(self):
        xs = np.array([-1.0, 0.5, 2.0])
        u, up, beta, beta_p = seed_eval_grid(SET_1, xs)
        for i, x in enumerate(xs):
            ev = seed_eval(SET_1, x)
            assert ev.u == u[i] and ev.u_prime == up[i]
            assert ev.beta == beta[i] and ev.beta_prime == beta_p[i]

    def test_u_beta_relation(self):
        ev = seed_eval(SET_1, 1.3)
        assert abs(ev.u * ev.beta - ev.u_prime) <= 1e-14 * abs(ev.u_prime)

    def test_singular_at_real_node(self):
        # eps = 5, lam = kappa = 0: u = e^{-x^2/2}(1 - 2x^2), node at 1/sqrt(2).
        params = TransformParams(epsilon=5.0)
        with pytest.raises(SingularPoint):
            seed_eval(params, 1.0 / math.sqrt(2.0))


def test_schrodinger_residual_invariant(default_grid):
    report = residual_report("schrodinger", SET_1, default_grid)
    assert report.max_relative <= 1e-7


def test_conjugation_symmetry():
    xs = np.linspace(-5.0, 5.0, 101)
    mirrored = TransformParams(epsilon=SET_1.epsilon.conjugate(), lam=1.0, kappa=-1.0)
    assert bool(np.all(seed_u(mirrored, xs) == np.conj(seed_u(SET_1, xs))))


def test_even_parity_without_odd_branch():
    params = TransformParams(epsilon=-1.0 + 1.0j)
    xs = np.linspace(0.1, 5.0, 50)
    assert bool(np.all(seed_u(params, xs) == seed_u(params, -xs)))


class TestRealCaseLambda:
    def test_zero_nu(self):
        assert real_case_lambda(0.0, -3.0) == 0.0

    def test_known_gamma_values(self):
        # 2 * 0.5 * Gamma(1)/Gamma(1/2) = 1/sqrt(pi)
        got = real_case_lambda(0.5, -1.0)
        assert abs(got - 1.0 / math.sqrt(math.pi)) <= 1e-12

    def test_gamma_ratio_at_zero_energy(self):
        # 2 Gamma(3/4)/Gamma(1/4), frozen from the extended-precision oracle.
        assert abs(real_case_lambda(1.0, 0.0) - 0.6759782400672847) <= 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleArgument):
            real_case_lambda(0.5, 3.0)  # (3-eps)/4 = 0


class TestLocateRealZeros:
    def test_complex_energy_is_node_free(self, default_grid):
        assert locate_real_zeros(SET_1, default_grid) == []

    def test_growing_gaussian_is_node_free(self, default_grid):
        assert locate_real_zeros(TransformParams(epsilon=-1.0), default_grid) == []

    def test_ground_state_case_is_node_free(self, default_grid):
        # eps = 1, lam = kappa = 0: M(0, 1/2; x^2) = 1, u = e^{-x^2/2}.
        assert locate_real_zeros(TransformParams(epsilon=1.0), default_grid) == []

    def test_polynomial_case_finds_both_nodes(self, default_grid):
        # u = e^{-x^2/2}(1 - 2x^2) vanishes at +-1/sqrt(2).
        zeros = locate_real_zeros(TransformParams(epsilon=5.0), default_grid)
        assert len(zeros) == 2
        for z, want in zip(zeros, (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))):
            assert abs(z - want) <= default_grid.step


def test_params_validation():
    with pytest.raises(ValueError):
        TransformParams(epsilon=complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        TransformParams(epsilon=1.0, lam=float("inf"))
