import cmath
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from susypiv import (
    NoConvergence,
    PoleArgument,
    PoleParameter,
    fd_derivative,
    gamma,
    kummer_m,
    kummer_m_derivative,
    kummer_oracle,
    real_case_lambda,
)

# Frozen oracle references (the long literal must be parsed at high dps).
E_30_DIGITS = "2.718281828459045235360287471353"
M_QUARTER_HALF_ONE = 1.7885868286208679464  # M(1/4, 1/2; 1)
GAMMA_HALF_PLUS_HALF_I = 0.8181639995417473 - 0.7633138287139826j
M_QUARTER_HALF_64 = "1080907700788622359697286448.1626114"  # M(1/4, 1/2; 64)
# M((1-eps)/4, 1/2; 1) at eps = -1+i.
M_SEED_EPS_M1_P1I = ("2.6405522439161810335166963423178", "-1.0024993168952996762619377837445")

# Seeds whose branch parameters (1-eps)/4, (3-eps)/4 span small and large |a|
# of both signs.  From 81+0.5i on, the first |Re a| terms of the Maclaurin sum
# alternate and cancel: a double-precision sum lost 7 digits at 81+0.5i and
# every digit at 200+0.5i and 1000+i.
SWEEP_EPSILONS = [
    3 + 1e-3j,
    5 + 1e-3j,
    9 + 1e-6j,
    21 + 0.5j,
    -40 + 1j,
    41 + 0.5j,
    81 + 0.5j,
    200 + 0.5j,
    1000 + 1j,
]


class TestKummerM:
    def test_value_at_zero_is_one(self):
        assert kummer_m(0.3 + 0.2j, 0.5, 0.0) == 1.0 + 0.0j

    def test_exponential_case(self):
        got = kummer_m(1.0, 1.0, 1.0 + 1.0j)
        want = cmath.exp(1.0 + 1.0j)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_matches_oracle_at_unit_argument(self):
        got = kummer_m(0.25, 0.5, 1.0)
        assert abs(got - M_QUARTER_HALF_ONE) <= 1e-12 * M_QUARTER_HALF_ONE

    def test_series_asymptotic_sweep_against_oracle(self):
        # |z| in [0, 100]; complex parameters included.
        pairs = [((1 - (-1 + 1j)) / 4, 0.5), ((3 - (-1 + 1j)) / 4, 1.5), (0.25, 0.5)]
        zs = np.concatenate([np.linspace(0.0, 100.0, 40), np.linspace(28.8, 31.2, 20)])
        for a, b in pairs:
            for z in zs:
                ref = complex(kummer_oracle(a, b, z, 25))
                got = kummer_m(a, b, z)
                assert abs(got - ref) <= 1e-9 * abs(ref), (a, b, z)

    @pytest.mark.parametrize("eps", SWEEP_EPSILONS)
    def test_seed_branches_against_oracle_to_600(self, eps):
        # Both seed branches in one broadcast call, z = x**2 up to |x| = 24.5.
        a = np.array([(1 - eps) / 4, (3 - eps) / 4])
        b = np.array([0.5, 1.5])
        zs = np.linspace(0.0, 600.0, 61)
        got = kummer_m(a[:, None], b[:, None], zs)
        assert got.shape == (2, zs.size)
        for i in range(2):
            for z, v in zip(zs, got[i]):
                ref = complex(kummer_oracle(a[i], b[i], z, 30))
                assert abs(v - ref) <= 1e-14 * abs(ref), (eps, i, z)

    def test_array_argument_matches_scalar(self):
        zs = np.array([0.0, 1.5, 29.0, 64.0], dtype=complex)
        arr = kummer_m(0.25, 0.5, zs)
        for z, v in zip(zs, arr):
            assert v == kummer_m(0.25, 0.5, z)

    def test_terminating_series_is_polynomial(self):
        # a = -1 gives M(-1, 1/2; z) = 1 - 2z for any z.
        for z in (0.5, 64.0):
            got = kummer_m(-1.0, 0.5, z)
            assert abs(got - (1.0 - 2.0 * z)) <= 1e-13 * max(1.0, abs(1.0 - 2.0 * z))

    def test_exact_zero_is_zero(self):
        # M(-1, 1/2; z) = 1 - 2z vanishes at z = 1/2; the series cancels exactly.
        assert kummer_oracle(-1.0, 0.5, 0.5, 30) == 0
        assert kummer_m(-1.0, 0.5, 0.5) == 0

    def test_pole_parameter_raises(self):
        with pytest.raises(PoleParameter):
            kummer_m(0.5, 0.0, 1.0)
        with pytest.raises(PoleParameter):
            kummer_m(0.5, -2.0, 1.0)

    def test_no_convergence_raises(self):
        # M(1/4, 1/2; 800) ~ e^800 overflows the double range: a typed error,
        # not a numpy RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="overflowed"):
                kummer_m(0.25, 0.5, 800.0)


class TestKummerDerivative:
    def test_exponential_derivative_at_zero(self):
        assert kummer_m_derivative(1.0, 1.0, 0.0, 1) == 1.0 + 0.0j

    def test_linear_term_ratio(self):
        a, b = 0.7 - 0.3j, 1.5
        got = kummer_m_derivative(a, b, 0.0, 1)
        assert abs(got - a / b) <= 1e-15

    def test_contiguity_is_bitwise(self):
        a, b, z = 0.25 + 0.1j, 0.5, 7.0
        assert kummer_m_derivative(a, b, z, 1) == (a / b) * kummer_m(a + 1, b + 1, z)

    def test_second_derivative_matches_finite_difference(self):
        a, b, z = 0.25, 0.5, 2.0
        got = kummer_m_derivative(a, b, z, 2)
        ref = fd_derivative(lambda t: kummer_m(a, b, t), z, order=2, h=1e-3)
        assert abs(got - ref) <= 1e-6 * abs(got)

    def test_first_derivative_matches_finite_difference_below_switch(self):
        a, b = (1 - (-1 + 1j)) / 4, 0.5
        for z in (0.5, 8.0, 25.0):
            got = kummer_m_derivative(a, b, z, 1)
            ref = fd_derivative(lambda t: kummer_m(a, b, t), z, order=1, h=1e-4)
            assert abs(got - ref) <= 1e-6 * abs(got)

    def test_pole_in_shifted_parameter_raises(self):
        with pytest.raises(PoleParameter):
            kummer_m_derivative(0.5, -1.0, 1.0, 2)


class TestKummerOracle:
    def test_e_to_thirty_digits(self):
        got = kummer_oracle(1.0, 1.0, 1.0, 30)
        with mpmath.workdps(40):
            assert mpmath.fabs(got - mpmath.mpf(E_30_DIGITS)) < mpmath.mpf(10) ** -29

    def test_crossover_reference_value(self):
        got = kummer_oracle(0.25, 0.5, 64.0, 30)
        with mpmath.workdps(40):
            ref = mpmath.mpf(M_QUARTER_HALF_64)
            assert mpmath.fabs(got - ref) / mpmath.fabs(ref) < mpmath.mpf(10) ** -25

    def test_seed_parameter_reference(self):
        eps = -1.0 + 1.0j
        a = (1.0 - eps) / 4.0
        got = kummer_oracle(a, 0.5, 1.0, 30)
        with mpmath.workdps(40):
            ref = mpmath.mpc(*M_SEED_EPS_M1_P1I)
            assert mpmath.fabs(got - ref) / mpmath.fabs(ref) < mpmath.mpf(10) ** -25

    def test_mpmath_convergence_failure_is_typed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("no convergence")

        monkeypatch.setattr(mpmath, "hyp1f1", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            kummer_oracle(0.25, 0.5, 1.0, 30)
        with pytest.raises(NoConvergence, match="did not converge"):
            kummer_m(0.25, 0.5, 1.0)

    def test_digit_bound_validation(self):
        with pytest.raises(ValueError):
            kummer_oracle(1.0, 1.0, 1.0, 51)
        with pytest.raises(PoleParameter):
            kummer_oracle(1.0, -3.0, 1.0, 20)


class TestGamma:
    def test_one(self):
        assert abs(gamma(1.0) - 1.0) <= 1e-14

    def test_half_is_sqrt_pi(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-13 * math.sqrt(math.pi)

    def test_complex_point_frozen(self):
        got = gamma(0.5 + 0.5j)
        assert abs(got - GAMMA_HALF_PLUS_HALF_I) <= 1e-12 * abs(GAMMA_HALF_PLUS_HALF_I)

    def test_recurrence_on_random_points(self, rng):
        # Gamma(z+1) = z Gamma(z) on 100 points with |z| <= 10, Re z > 0.
        count = 0
        while count < 100:
            z = complex(rng.uniform(0.05, 10.0), rng.uniform(-10.0, 10.0))
            if abs(z) > 10.0:
                continue
            count += 1
            lhs = gamma(z + 1.0)
            rhs = z * gamma(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_reflection_region_against_mpmath(self):
        for z in (-1.5 + 0.3j, -0.25 - 2.0j, -4.7 + 0.01j):
            with mpmath.workdps(30):
                ref = complex(mpmath.gamma(z))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleArgument):
                gamma(z)

    def test_past_the_double_range_raises(self):
        # Gamma(200) ~ 4e372 overflows and Gamma(-200.5 + 0.1i) ~ 3e-376
        # underflows; real_case_lambda(1, -800) needs Gamma(200.75).
        for z in (200.0, -200.5 + 0.1j):
            with pytest.raises(NoConvergence):
                gamma(z)
        with pytest.raises(NoConvergence):
            real_case_lambda(1.0, -800.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "fn,position",
    [(gamma, 0)] + [(fn, k) for fn in (kummer_oracle, kummer_m) for k in range(3)],
    ids=["gamma-z", "oracle-a", "oracle-b", "oracle-z", "m-a", "m-b", "m-z"],
)
def test_non_finite_input_raises(fn, position, value):
    # gamma(nan) and gamma(inf) said "overflowed the double range", and
    # kummer_oracle(0.25, 0.5, inf) returned mpc(nan, nan).
    args = [0.25, 0.5, 1.0][: 1 if fn is gamma else 3]
    args[position] = value
    with pytest.raises(NoConvergence, match="input is not finite"):
        fn(*args)


def test_importing_the_cli_does_not_load_mpmath():
    # mpmath is imported on first use of the 1F1 and Gamma functions; loading
    # it with the package would add about 40 ms to every CLI start.
    code = "import sys, susypiv.cli; assert 'mpmath' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
